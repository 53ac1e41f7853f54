//! Conceptual updates compiled through the forwards map — the write half of
//! "compiling high-level process specifications into relational application
//! programs" (§4.3).
//!
//! ```text
//! ADD Paper ( identified_by = 'P9' , titled = 'A new result' );
//! REMOVE Paper WHERE identified_by = 'P9';
//! ```
//!
//! An `ADD` names the instance by its reference path(s) and assigns values
//! to (single-step) fact paths; the compiler places every value into the
//! relation(s) the mapping chose and executes the inserts as one engine
//! batch, so the generated constraints judge the whole conceptual update
//! atomically — exactly the discipline the paper wants application
//! programs to follow.

use std::collections::HashMap;

use ridl_brm::{ObjectTypeId, Value};
use ridl_core::{FactRealization, MappingOutput, SubMembership};
use ridl_engine::{BatchOp, Database, EngineError, Pred};
use ridl_relational::TableId;

use crate::ast::PathStep;
use crate::compile::CompileError;
use crate::parse::QueryParseError;

/// A conceptual instance addition: assignments of lexical values to
/// single-step fact paths of the head object type. The head's reference
/// path(s) must be among the assignments.
#[derive(Clone, PartialEq, Debug)]
pub struct ConceptualAdd {
    /// The head object type.
    pub head: String,
    /// `(step, value)` assignments.
    pub assignments: Vec<(PathStep, Value)>,
}

/// A conceptual instance removal, identified by its reference value(s).
#[derive(Clone, PartialEq, Debug)]
pub struct ConceptualRemove {
    /// The head object type.
    pub head: String,
    /// `(step, value)` identification.
    pub key: Vec<(PathStep, Value)>,
}

fn parse_assignments(s: &str) -> Result<Vec<(PathStep, Value)>, QueryParseError> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (path, lit) = part.split_once('=').ok_or_else(|| QueryParseError {
            message: format!("expected `path = literal` in `{part}`"),
        })?;
        let path = path.trim();
        if path.contains('.') {
            return Err(QueryParseError {
                message: format!("updates take single-step paths, got `{path}`"),
            });
        }
        out.push((
            PathStep {
                name: path.to_owned(),
            },
            crate::parse::parse_literal_pub(lit)?,
        ));
    }
    if out.is_empty() {
        return Err(QueryParseError {
            message: "at least one assignment is required".into(),
        });
    }
    Ok(out)
}

/// Parses `ADD <Head> ( step = lit , … );`.
pub fn parse_add(src: &str) -> Result<ConceptualAdd, QueryParseError> {
    let src = src.trim().trim_end_matches(';');
    let rest = src
        .strip_prefix("ADD ")
        .or_else(|| src.strip_prefix("add "))
        .ok_or_else(|| QueryParseError {
            message: "update must start with ADD".into(),
        })?;
    let open = rest.find('(').ok_or_else(|| QueryParseError {
        message: "missing (".into(),
    })?;
    let close = rest.rfind(')').ok_or_else(|| QueryParseError {
        message: "missing )".into(),
    })?;
    Ok(ConceptualAdd {
        head: rest[..open].trim().to_owned(),
        assignments: parse_assignments(&rest[open + 1..close])?,
    })
}

/// Parses `REMOVE <Head> WHERE step = lit [AND …];`.
pub fn parse_remove(src: &str) -> Result<ConceptualRemove, QueryParseError> {
    let src = src.trim().trim_end_matches(';');
    let rest = src
        .strip_prefix("REMOVE ")
        .or_else(|| src.strip_prefix("remove "))
        .ok_or_else(|| QueryParseError {
            message: "update must start with REMOVE".into(),
        })?;
    let (head, conds) = rest.split_once(" WHERE ").ok_or_else(|| QueryParseError {
        message: "REMOVE needs a WHERE identification".into(),
    })?;
    let key = conds
        .split(" AND ")
        .map(parse_assignments)
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect();
    Ok(ConceptualRemove {
        head: head.trim().to_owned(),
        key,
    })
}

fn head_id(out: &MappingOutput, head: &str) -> Result<ObjectTypeId, CompileError> {
    out.schema
        .object_type_by_name(head)
        .ok_or_else(|| CompileError::UnknownObjectType(head.to_owned()))
}

/// Resolves a single-step assignment to `(table, value columns)`.
fn place(
    out: &MappingOutput,
    head: ObjectTypeId,
    step: &PathStep,
) -> Result<(TableId, Vec<u32>), CompileError> {
    let schema = &out.schema;
    for ot in schema.ancestors_of(head) {
        for role in schema.roles_of(ot) {
            let ft = schema.fact_type(role.fact);
            let named = ft.role(role.side).name == step.name
                || ft.name == step.name
                || ft.role(role.side.other()).name == step.name;
            if !named {
                continue;
            }
            return match out.realization(role.fact) {
                FactRealization::KeyOf { table, cols, .. } => Ok((*table, cols.clone())),
                FactRealization::Attribute {
                    table, value_cols, ..
                } => Ok((*table, value_cols.clone())),
                FactRealization::OwnTable { .. } => Err(CompileError::Unsupported(
                    "many-to-many facts need their own ADD (one per pair)".into(),
                )),
                FactRealization::Omitted => Err(CompileError::NotMapped(format!(
                    "fact {} was omitted by option",
                    ft.name
                ))),
            };
        }
    }
    Err(CompileError::UnknownStep {
        step: step.name.clone(),
        at: schema.ot_name(head).to_owned(),
    })
}

/// Applies a conceptual ADD: assembles one row per touched relation and
/// inserts them as one batch, which the engine checks as a whole. Rows
/// already present are left out. Returns the touched table names.
pub fn apply_add(
    out: &MappingOutput,
    db: &mut Database,
    add: &ConceptualAdd,
) -> Result<Vec<String>, CompileError> {
    let head = head_id(out, &add.head)?;
    // Group the assigned cells per table.
    let mut cells: HashMap<TableId, Vec<(u32, Value)>> = HashMap::new();
    for (step, value) in &add.assignments {
        let (table, cols) = place(out, head, step)?;
        if cols.len() != 1 {
            return Err(CompileError::Unsupported(format!(
                "`{}` is a compound reference; assign its components separately",
                step.name
            )));
        }
        cells
            .entry(table)
            .or_default()
            .push((cols[0], value.clone()));
    }
    // Indicator columns of the head's sublinks must be set on the super row.
    for (sid, sl) in out.schema.sublinks() {
        if let Some(SubMembership::Indicator { table, col, .. }) = &out.sub_memb[sid.index()] {
            let is_member = out.schema.ancestors_of(head).contains(&sl.sub);
            let touches = cells.contains_key(table)
                || out.anchor_of(out.host_of(sl.sup)).map(|a| a.table) == Some(*table);
            if touches && out.schema.ancestors_of(head).contains(&sl.sup) {
                cells
                    .entry(*table)
                    .or_default()
                    .push((*col, Value::Bool(is_member)));
            }
        }
    }

    let mut touched = Vec::new();
    let mut batch = Vec::new();
    for (table, assigns) in &cells {
        let t = out.rel.table(*table);
        let mut row = vec![None; t.arity()];
        for (col, v) in assigns {
            row[*col as usize] = Some(v.clone());
        }
        touched.push(t.name.clone());
        if !db.state().rows(*table).contains(&row) {
            batch.push(BatchOp::insert(t.name.clone(), row));
        }
    }
    db.apply_batch(batch).map_err(|e| match e {
        EngineError::ConstraintViolation(_) => {
            CompileError::Unsupported(format!("conceptual ADD violates the schema: {e}"))
        }
        _ => CompileError::Unsupported(format!("insert failed: {e}")),
    })?;
    touched.sort();
    Ok(touched)
}

/// Applies a conceptual REMOVE: deletes the instance's rows from every
/// relation keyed by its identification, as one statement.
pub fn apply_remove(
    out: &MappingOutput,
    db: &mut Database,
    remove: &ConceptualRemove,
) -> Result<usize, CompileError> {
    let head = head_id(out, &remove.head)?;
    // Identification columns in the head's base relation.
    let anchor = out
        .anchor_of(out.host_of(head))
        .ok_or_else(|| CompileError::NotMapped(format!("{} has no relation", remove.head)))?
        .clone();
    let mut preds = Vec::new();
    for (step, value) in &remove.key {
        let (table, cols) = place(out, head, step)?;
        if table != anchor.table || cols.len() != 1 {
            return Err(CompileError::Unsupported(
                "REMOVE identification must use the head's own reference facts".into(),
            ));
        }
        preds.push(Pred::Eq(
            out.rel.table(table).column(cols[0]).name.clone(),
            value.clone(),
        ));
    }
    db.delete_where(&out.rel.table(anchor.table).name, &preds)
        .map_err(|e| CompileError::Unsupported(format!("delete failed: {e}")))
}
