//! The map report (§4.3): "a detailed … report \[that\] describes the
//! complete cross-reference link (in both directions) between the
//! conceptual binary schema and the generated relational schema."
//!
//! * the **forwards map** tells how each binary concept (LOTs, NOLOTs,
//!   facts, roles, sublinks and constraints) is expressed in the relational
//!   schema — each fact's entry is an executable SELECT, as in the paper's
//!   fragment 1;
//! * the **backwards map** tells, for each relational concept (domain,
//!   relation, attribute, constraint), the binary concepts it derives from
//!   (fragment 2).
//!
//! "The map report is essential for application programmers … And this
//! forwards map will also play a key role in ultimately *compiling*
//! high-level process specifications into relational application programs."
//! `ridl-engine` executes the forward SELECTs directly, closing that loop.

use std::collections::HashMap;

use ridl_brm::{ConstraintId, FactTypeId, ObjectTypeId, ObjectTypeKind, Schema, Side, SublinkId};
use ridl_relational::{ColumnSelection, RelSchema, TableId};

use crate::grouping::{ConstraintMapping, FactRealization, MappingOutput, SubMembership};

/// The rendered map report.
#[derive(Clone, Debug)]
pub struct MapReport {
    /// The forwards map text.
    pub forwards: String,
    /// The backwards map text.
    pub backwards: String,
}

const RULE: &str = "--------------------------------------------------------------------------\n";

/// Renders a column selection in the paper's SELECT style.
pub fn render_selection(rel: &RelSchema, sel: &ColumnSelection) -> String {
    let table = rel.table(sel.table);
    let cols: Vec<&str> = sel
        .cols
        .iter()
        .map(|c| table.column(*c).name.as_str())
        .collect();
    let mut s = format!("SELECT {}\n    FROM {}", cols.join(" , "), table.name);
    let mut conds: Vec<String> = sel
        .not_null
        .iter()
        .map(|c| format!("( {} IS NOT NULL )", table.column(*c).name))
        .collect();
    conds.extend(
        sel.eq
            .iter()
            .map(|(c, v)| format!("( {} = {} )", table.column(*c).name, v)),
    );
    if !conds.is_empty() {
        s.push_str(&format!("\n    WHERE {}", conds.join(" AND ")));
    }
    s
}

pub(crate) fn ot_kind_word(kind: ObjectTypeKind) -> &'static str {
    match kind {
        ObjectTypeKind::Lot(_) => "LOT",
        ObjectTypeKind::Nolot => "NOLOT",
        ObjectTypeKind::LotNolot(_) => "LOT-NOLOT",
    }
}

/// The paper's fact description:
/// `FACT WITH ROLE r1 ON NOLOT A AND ROLE r2 ON LOT B`.
pub fn describe_fact(schema: &Schema, fid: ridl_brm::FactTypeId) -> String {
    let ft = schema.fact_type(fid);
    let part = |side: Side| {
        let role = ft.role(side);
        let kind = ot_kind_word(schema.kind_of(role.player));
        if role.name.is_empty() {
            format!("ROLE ON {kind} {}", schema.ot_name(role.player))
        } else {
            format!(
                "ROLE {} ON {kind} {}",
                role.name,
                schema.ot_name(role.player)
            )
        }
    };
    format!("FACT WITH {} AND {}", part(Side::Left), part(Side::Right))
}

pub(crate) fn describe_sublink(schema: &Schema, sid: ridl_brm::SublinkId) -> String {
    let sl = schema.sublink(sid);
    format!(
        "SUBLINK IS FROM NOLOT {} TO NOLOT {}",
        schema.ot_name(sl.sub),
        schema.ot_name(sl.sup)
    )
}

pub(crate) fn describe_constraint(schema: &Schema, cid: ridl_brm::ConstraintId) -> String {
    let c = schema.constraint(cid);
    let roles = c.kind.referenced_roles();
    let role_list: Vec<String> = roles.iter().map(|r| schema.role_display(*r)).collect();
    if role_list.is_empty() {
        format!("{} {cid}", c.kind.keyword())
    } else {
        format!("{} : {}", c.kind.keyword(), role_list.join(" AND "))
    }
}

impl MapReport {
    /// Builds both report directions from a mapping output.
    pub fn new(out: &MappingOutput) -> Self {
        Self {
            forwards: forwards(out),
            backwards: backwards(out),
        }
    }
}

fn forwards(out: &MappingOutput) -> String {
    let schema = &out.schema;
    let rel = &out.rel;
    let mut s = String::from("FORWARDS MAP\n");
    s.push_str(RULE);

    // Each lexical object type's columns, sorted.
    let mut lot_cols: HashMap<ObjectTypeId, Vec<String>> = HashMap::new();
    for (&(t, c), lot) in &out.col_sources {
        let table = rel.table(TableId(t));
        lot_cols
            .entry(*lot)
            .or_default()
            .push(format!("{}.{}", table.name, table.column(c).name));
    }
    for cols in lot_cols.values_mut() {
        cols.sort();
    }

    // Object types.
    for (oid, ot) in schema.object_types() {
        s.push_str(&format!(
            "{} {}\n    MAPPED TO\n",
            ot_kind_word(ot.kind),
            ot.name
        ));
        match out.anchor_of(oid) {
            Some(a) => {
                let sel = ColumnSelection::of(a.table, a.key_cols.clone());
                s.push_str(&format!(
                    "    {}\n",
                    render_selection(rel, &sel).replace('\n', "\n    ")
                ));
            }
            None => {
                // Attribute-like or absorbed: population is derived.
                match lot_cols.get(&oid) {
                    None => s.push_str("    (population not stored)\n"),
                    Some(cols) => {
                        s.push_str(&format!("    VALUES OCCURRING IN {}\n", cols.join(" , ")))
                    }
                }
            }
        }
        s.push_str(RULE);
    }

    // Facts.
    for (fid, _) in schema.fact_types() {
        s.push_str(&format!("{}\n    MAPPED TO\n", describe_fact(schema, fid)));
        match out.realization(fid) {
            FactRealization::Omitted => s.push_str("    (omitted by option)\n"),
            FactRealization::KeyOf { table, cols, .. } => {
                let info = &out.anchors[&key_anchor(out, fid)];
                let mut sel_cols = info.key_cols.clone();
                for c in cols {
                    if !sel_cols.contains(c) {
                        sel_cols.push(*c);
                    }
                }
                let sel = ColumnSelection::of(*table, sel_cols);
                s.push_str(&format!(
                    "    {}\n",
                    render_selection(rel, &sel).replace('\n', "\n    ")
                ));
            }
            FactRealization::Attribute {
                table,
                key_cols,
                value_cols,
                optional,
                ..
            } => {
                let mut cols = key_cols.clone();
                cols.extend(value_cols);
                let mut sel = ColumnSelection::of(*table, cols);
                if *optional {
                    sel = sel.where_not_null(value_cols.clone());
                }
                s.push_str(&format!(
                    "    {}\n",
                    render_selection(rel, &sel).replace('\n', "\n    ")
                ));
            }
            FactRealization::OwnTable {
                table,
                left_cols,
                right_cols,
            } => {
                let mut cols = left_cols.clone();
                cols.extend(right_cols);
                let sel = ColumnSelection::of(*table, cols);
                s.push_str(&format!(
                    "    {}\n",
                    render_selection(rel, &sel).replace('\n', "\n    ")
                ));
            }
        }
        s.push_str(RULE);
    }

    // Sublinks.
    for (sid, sl) in schema.sublinks() {
        s.push_str(&format!(
            "{}\n    MAPPED TO\n",
            describe_sublink(schema, sid)
        ));
        match &out.sub_memb[sid.index()] {
            None => s.push_str("    (membership unrepresented)\n"),
            Some(m) => {
                if let Some(sel) = out.membership_selection(schema, sid) {
                    s.push_str(&format!(
                        "    {}\n",
                        render_selection(rel, &sel).replace('\n', "\n    ")
                    ));
                }
                if let SubMembership::OwnKeyLinked {
                    super_table,
                    is_cols,
                    ..
                } = m
                {
                    // The paper shows the `_Is` pairing select.
                    let sup_host = out.host_of(sl.sup);
                    if let Some(a) = out.anchor_of(sup_host) {
                        let mut cols = is_cols.clone();
                        cols.extend(&a.key_cols);
                        let sel =
                            ColumnSelection::of(*super_table, cols).where_not_null(is_cols.clone());
                        s.push_str(&format!(
                            "    PAIRED BY\n    {}\n",
                            render_selection(rel, &sel).replace('\n', "\n    ")
                        ));
                    }
                }
            }
        }
        s.push_str(RULE);
    }

    // Constraints.
    for (cid, _) in schema.constraints() {
        s.push_str(&format!(
            "{}\n    MAPPED TO\n",
            describe_constraint(schema, cid)
        ));
        match &out.constraint_map[cid.index()] {
            ConstraintMapping::Relational(names) => {
                for n in names {
                    s.push_str(&format!("    CONSTRAINT {n}\n"));
                }
            }
            ConstraintMapping::Absorbed(why) => s.push_str(&format!("    (absorbed: {why})\n")),
            ConstraintMapping::Unexpressed(why) => {
                s.push_str(&format!("    (NOT EXPRESSED: {why})\n"))
            }
        }
        s.push_str(RULE);
    }
    s
}

fn key_anchor(out: &MappingOutput, fid: ridl_brm::FactTypeId) -> u32 {
    match out.realization(fid) {
        FactRealization::KeyOf { anchor, .. } => anchor.raw(),
        _ => unreachable!("caller checked realization"),
    }
}

/// Appends `item` to `list` unless it was the last one appended, so an
/// item listed once per source (a fact naming a column twice, a step
/// naming a rule twice) lands once.
fn push_once<T: PartialEq>(list: &mut Vec<T>, item: T) {
    if list.last() != Some(&item) {
        list.push(item);
    }
}

/// The backwards map's inverted lists, built in one pass over each
/// binary concept. Every list is in the concept's declaration order.
struct Inverted<'a> {
    /// Per table: the object types anchored in it.
    table_ots: Vec<Vec<ObjectTypeId>>,
    /// Per table: the facts realised in it.
    table_facts: Vec<Vec<FactTypeId>>,
    /// Per table: the sublinks whose membership it represents.
    table_sublinks: Vec<Vec<SublinkId>>,
    /// Per table and column: the facts whose roles it holds.
    col_facts: Vec<Vec<Vec<FactTypeId>>>,
    /// Per table and column: the sublinks whose membership it holds.
    col_sublinks: Vec<Vec<Vec<SublinkId>>>,
    /// Per relational constraint name: the binary constraints mapped to it.
    constraints: HashMap<&'a str, Vec<ConstraintId>>,
    /// Per lossless rule name: the trace steps that introduced it.
    steps: HashMap<&'a str, Vec<usize>>,
}

impl<'a> Inverted<'a> {
    fn new(out: &'a MappingOutput) -> Self {
        let schema = &out.schema;
        let rel = &out.rel;
        fn per_table<T: Clone>(rel: &RelSchema) -> Vec<Vec<T>> {
            vec![Vec::new(); rel.tables.len()]
        }
        fn per_col<T: Clone>(rel: &RelSchema) -> Vec<Vec<Vec<T>>> {
            rel.tables
                .iter()
                .map(|t| vec![Vec::new(); t.columns.len()])
                .collect()
        }
        fn slot<T: PartialEq>(lists: &mut [Vec<Vec<T>>], t: TableId, c: u32, item: T) {
            push_once(&mut lists[t.0 as usize][c as usize], item);
        }
        let mut inv = Inverted {
            table_ots: per_table(rel),
            table_facts: per_table(rel),
            table_sublinks: per_table(rel),
            col_facts: per_col(rel),
            col_sublinks: per_col(rel),
            constraints: HashMap::new(),
            steps: HashMap::new(),
        };

        for (oid, _) in schema.object_types() {
            if let Some(a) = out.anchor_of(oid) {
                inv.table_ots[a.table.0 as usize].push(oid);
            }
        }
        for (fid, _) in schema.fact_types() {
            let (table, cols): (TableId, Vec<&u32>) = match out.realization(fid) {
                FactRealization::KeyOf { table, cols, .. } => (*table, cols.iter().collect()),
                FactRealization::Attribute {
                    table, value_cols, ..
                } => (*table, value_cols.iter().collect()),
                FactRealization::OwnTable {
                    table,
                    left_cols,
                    right_cols,
                } => (*table, left_cols.iter().chain(right_cols).collect()),
                FactRealization::Omitted => continue,
            };
            inv.table_facts[table.0 as usize].push(fid);
            for &c in cols {
                slot(&mut inv.col_facts, table, c, fid);
            }
        }
        for (sid, _) in schema.sublinks() {
            let Some(m) = &out.sub_memb[sid.index()] else {
                continue;
            };
            let tables = match m {
                SubMembership::SubRelation { table, .. }
                | SubMembership::AbsorbedColumns { table, .. }
                | SubMembership::Indicator { table, .. } => [*table, *table],
                SubMembership::OwnKeyLinked {
                    table, super_table, ..
                } => [*table, *super_table],
                SubMembership::LinkTable {
                    table, link_table, ..
                } => [*table, *link_table],
            };
            for t in tables {
                push_once(&mut inv.table_sublinks[t.0 as usize], sid);
            }
            match m {
                SubMembership::LinkTable { link_table, .. } => {
                    for c in 0..rel.table(*link_table).columns.len() as u32 {
                        slot(&mut inv.col_sublinks, *link_table, c, sid);
                    }
                }
                SubMembership::OwnKeyLinked {
                    super_table,
                    is_cols,
                    ..
                } => {
                    for &c in is_cols {
                        slot(&mut inv.col_sublinks, *super_table, c, sid);
                    }
                }
                SubMembership::Indicator { table, col, .. } => {
                    slot(&mut inv.col_sublinks, *table, *col, sid);
                }
                _ => {}
            }
        }
        for (cid, _) in schema.constraints() {
            if let ConstraintMapping::Relational(names) = &out.constraint_map[cid.index()] {
                for n in names {
                    push_once(inv.constraints.entry(n.as_str()).or_default(), cid);
                }
            }
        }
        for (i, step) in out.trace.steps().iter().enumerate() {
            for r in &step.lossless_rules {
                push_once(inv.steps.entry(r.as_str()).or_default(), i);
            }
        }
        inv
    }
}

fn backwards(out: &MappingOutput) -> String {
    let schema = &out.schema;
    let rel = &out.rel;
    let inv = Inverted::new(out);
    let facts: Vec<String> = schema
        .fact_types()
        .map(|(fid, _)| describe_fact(schema, fid))
        .collect();
    let sublinks: Vec<String> = schema
        .sublinks()
        .map(|(sid, _)| describe_sublink(schema, sid))
        .collect();
    let mut s = String::from("BACKWARDS MAP\n");
    s.push_str(RULE);

    for (tid, table) in rel.tables() {
        let t = tid.0 as usize;
        // Table derivation: every fact/sublink realised in it.
        s.push_str(&format!("TABLE {}\n    DERIVED FROM\n", table.name));
        for &oid in &inv.table_ots[t] {
            s.push_str(&format!(
                "    {} {}\n",
                ot_kind_word(schema.kind_of(oid)),
                schema.ot_name(oid)
            ));
        }
        for fid in &inv.table_facts[t] {
            s.push_str(&format!("    {} ,\n", facts[fid.index()]));
        }
        for sid in &inv.table_sublinks[t] {
            s.push_str(&format!("    {} ,\n", sublinks[sid.index()]));
        }
        s.push_str(RULE);

        // Column derivations.
        for (ci, col) in table.columns.iter().enumerate() {
            s.push_str(&format!(
                "COLUMN {} IN TABLE {}\n    DERIVED FROM\n",
                col.name, table.name
            ));
            let mut any = false;
            if let Some(lot) = out.col_sources.get(&(tid.0, ci as u32)) {
                s.push_str(&format!(
                    "    {} {} ,\n",
                    ot_kind_word(schema.kind_of(*lot)),
                    schema.ot_name(*lot)
                ));
                any = true;
            }
            for fid in &inv.col_facts[t][ci] {
                s.push_str(&format!("    {} ,\n", facts[fid.index()]));
                any = true;
            }
            for sid in &inv.col_sublinks[t][ci] {
                s.push_str(&format!("    {} ,\n", sublinks[sid.index()]));
                any = true;
            }
            if !any {
                s.push_str("    (structural)\n");
            }
            s.push_str(RULE);
        }
    }

    // Relational constraints back to binary concepts.
    let steps = out.trace.steps();
    for rc in &rel.constraints {
        s.push_str(&format!("CONSTRAINT {}\n    DERIVED FROM\n", rc.name));
        if let Some(cids) = inv.constraints.get(rc.name.as_str()) {
            for &cid in cids {
                s.push_str(&format!("    {}\n", describe_constraint(schema, cid)));
            }
        } else if let Some(found) = inv.steps.get(rc.name.as_str()) {
            // Structural constraints: the trace steps that produced them.
            for &i in found {
                s.push_str(&format!("    {} AT {}\n", steps[i].name, steps[i].site));
            }
        } else {
            s.push_str("    (structural, from the grouping synthesis)\n");
        }
        s.push_str(RULE);
    }
    s
}
