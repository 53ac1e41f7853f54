//! RIDL-A function 3: consistency of the set-algebraic constraints "on the
//! populations of roles and object types" (§3.2).
//!
//! The total/exclusion/subset/equality constraints of the BRM are inclusion
//! and disjointness statements between role- and object-type populations. A
//! combination like *exclusion(r, s)* together with *equality(r, s)* is
//! satisfiable only by empty populations — almost certainly a specification
//! error. This module saturates the inclusion/disjointness lattice with a
//! small fixpoint engine and reports every population that the constraints
//! force to be empty.
//!
//! Derivation rules:
//!
//! 1. `pop(role) ⊆ pop(player)`; `pop(sub) ⊆ pop(sup)` (structure);
//! 2. subset is reflexive and transitive;
//! 3. `disjoint(a,b) ∧ x ⊆ a ∧ y ⊆ b ⟹ disjoint(x,y)`;
//! 4. `disjoint(x,x) ⟹ empty(x)`;
//! 5. `x ⊆ y ∧ empty(y) ⟹ empty(x)`;
//! 6. `cover(o, items) ∧ (∀i: empty(i) ∨ disjoint(o,i)) ⟹ empty(o)`
//!    (a total union whose members are all unavailable to `o`).
//!
//! No rule derives an inclusion or a disjointness from an emptiness, so
//! saturation is staged. The inclusions are closed once (rule 2), the
//! declared disjointness pairs are pushed down the closed lattice in one
//! pass (rule 3), and only rules 4–6 iterate. The relations are square bit
//! matrices, one row of `u64` words per node, so the fixpoint rounds are
//! row ANDs. For `n` nodes, `e` base inclusions, `d` declared
//! disjointness pairs and `r` rounds of rules 4–6, the worst case is
//! `O(n·(n+e) + (d+r)·n²/64)` operations; real schemas have shallow
//! inclusion lattices and few rounds, so it is close to linear there.

use std::collections::HashMap;

use ridl_brm::{ConstraintId, ConstraintKind, RoleOrSublink, RoleRef, Schema, Side};

use crate::report::Finding;

/// A population node: an object type or a role projection.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Node {
    Ot(u32),
    Role(u32, Side),
}

impl Node {
    fn role(r: &RoleRef) -> Self {
        Node::Role(r.fact.raw(), r.side)
    }

    fn item(schema: &Schema, item: &RoleOrSublink) -> Self {
        match item {
            RoleOrSublink::Role(r) => Node::role(r),
            RoleOrSublink::Sublink(s) => Node::Ot(schema.sublink(*s).sub.raw()),
        }
    }
}

/// A square bit matrix: row `i` is a set of nodes, as `u64` words.
struct BitMatrix {
    rows: Vec<Vec<u64>>,
}

impl BitMatrix {
    fn new(n: usize) -> Self {
        BitMatrix {
            rows: vec![vec![0; n.div_ceil(64)]; n],
        }
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.rows[i]
    }

    fn get(&self, i: usize, j: usize) -> bool {
        has(&self.rows[i], j)
    }

    /// Sets bit `(i, j)`; returns whether it was clear.
    fn set(&mut self, i: usize, j: usize) -> bool {
        let fresh = !has(&self.rows[i], j);
        put(&mut self.rows[i], j);
        fresh
    }

    /// ORs `src` into row `i`.
    fn or_row(&mut self, i: usize, src: &[u64]) {
        for (d, s) in self.rows[i].iter_mut().zip(src) {
            *d |= s;
        }
    }

    /// The columns set in row `i`, ascending.
    fn ones(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.rows[i].iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let b = rest.trailing_zeros() as usize;
                rest &= rest.wrapping_sub(1);
                (b < 64).then_some(w * 64 + b)
            })
        })
    }
}

fn has(row: &[u64], j: usize) -> bool {
    row[j / 64] & (1 << (j % 64)) != 0
}

fn put(row: &mut [u64], j: usize) {
    row[j / 64] |= 1 << (j % 64);
}

/// The base facts of a schema, before saturation: its nodes, the declared
/// inclusions and disjointness pairs (each tagged with the constraint that
/// states it; structural inclusions carry no tag), and the covers.
struct Base {
    index: HashMap<Node, usize>,
    subset: Vec<(usize, usize, Option<ConstraintId>)>,
    disjoint: Vec<(usize, usize, ConstraintId)>,
    covers: Vec<(usize, Vec<usize>)>,
}

impl Base {
    fn node(&mut self, n: Node) -> usize {
        let next = self.index.len();
        *self.index.entry(n).or_insert(next)
    }

    fn collect(schema: &Schema) -> Self {
        let mut b = Base {
            index: HashMap::new(),
            subset: Vec::new(),
            disjoint: Vec::new(),
            covers: Vec::new(),
        };
        // Structure: roles within players, subtypes within supertypes.
        for (fid, ft) in schema.fact_types() {
            for side in Side::BOTH {
                let r = b.node(Node::Role(fid.raw(), side));
                let p = b.node(Node::Ot(ft.player(side).raw()));
                b.subset.push((r, p, None));
            }
        }
        for (_, sl) in schema.sublinks() {
            let sub = b.node(Node::Ot(sl.sub.raw()));
            let sup = b.node(Node::Ot(sl.sup.raw()));
            b.subset.push((sub, sup, None));
        }
        // Constraints.
        for (cid, c) in schema.constraints() {
            match &c.kind {
                ConstraintKind::Total { over, items } => {
                    let o = b.node(Node::Ot(over.raw()));
                    let is: Vec<usize> = items
                        .iter()
                        .map(|i| b.node(Node::item(schema, i)))
                        .collect();
                    if is.len() == 1 {
                        // Total role: the player's population equals the
                        // role's (mutual inclusion).
                        b.subset.push((o, is[0], Some(cid)));
                    }
                    b.covers.push((o, is));
                }
                ConstraintKind::Exclusion { items } => {
                    let is: Vec<usize> = items
                        .iter()
                        .map(|i| b.node(Node::item(schema, i)))
                        .collect();
                    for x in 0..is.len() {
                        for y in (x + 1)..is.len() {
                            b.disjoint.push((is[x], is[y], cid));
                        }
                    }
                }
                ConstraintKind::Subset { sub, sup } if sub.len() == 1 && sup.len() == 1 => {
                    let x = b.node(Node::role(&sub[0]));
                    let y = b.node(Node::role(&sup[0]));
                    b.subset.push((x, y, Some(cid)));
                }
                ConstraintKind::Equality { a, b: eq } if a.len() == 1 && eq.len() == 1 => {
                    let x = b.node(Node::role(&a[0]));
                    let y = b.node(Node::role(&eq[0]));
                    b.subset.push((x, y, Some(cid)));
                    b.subset.push((y, x, Some(cid)));
                }
                _ => {}
            }
        }
        b
    }

    /// Saturates the base facts, leaving out those `skip` states.
    fn saturate(&self, skip: Option<ConstraintId>) -> Lattice {
        let n = self.index.len();
        let kept = |tag: Option<ConstraintId>| tag.is_none() || tag != skip;

        // Rule 2: close the inclusions, one depth-first walk per node over
        // the base edges; row `i` doubles as the walk's visited set.
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(x, y, tag) in &self.subset {
            if kept(tag) {
                succ[x].push(y);
            }
        }
        let mut subset = BitMatrix::new(n);
        let mut stack = Vec::new();
        for i in 0..n {
            subset.set(i, i);
            stack.push(i);
            while let Some(x) = stack.pop() {
                for &y in &succ[x] {
                    if subset.set(i, y) {
                        stack.push(y);
                    }
                }
            }
        }

        // Rule 3, in one pass over the closed lattice: a declared pair
        // (a, b) makes everything below `a` disjoint from everything below
        // `b`. `below[a]` is column `a` of `subset`.
        let mut below = BitMatrix::new(n);
        for x in 0..n {
            for a in subset.ones(x) {
                below.set(a, x);
            }
        }
        let mut disjoint = BitMatrix::new(n);
        for &(a, b, tag) in &self.disjoint {
            if !kept(Some(tag)) {
                continue;
            }
            for (from, to) in [(a, b), (b, a)] {
                for x in below.ones(from) {
                    disjoint.or_row(x, below.row(to));
                }
            }
        }

        // Rule 4: self-disjoint means empty.
        let mut empty = vec![0u64; n.div_ceil(64)];
        for x in (0..n).filter(|&x| disjoint.get(x, x)) {
            put(&mut empty, x);
        }
        // Rules 5 and 6 until nothing changes.
        let mut changed = true;
        while changed {
            changed = false;
            // Rule 5: a node with an empty superset is empty.
            for x in 0..n {
                if !has(&empty, x) && subset.row(x).iter().zip(&empty).any(|(s, e)| s & e != 0) {
                    put(&mut empty, x);
                    changed = true;
                }
            }
            // Rule 6: a covered node with no available member is empty.
            for (o, items) in &self.covers {
                if !has(&empty, *o) && items.iter().all(|&i| has(&empty, i) || disjoint.get(*o, i))
                {
                    put(&mut empty, *o);
                    changed = true;
                }
            }
        }
        Lattice {
            subset,
            disjoint,
            empty,
        }
    }
}

/// Saturated relations over the nodes of a [`Base`].
struct Lattice {
    /// Row `x`: every `y` with `x ⊆ y`.
    subset: BitMatrix,
    /// Row `x`: every `y` disjoint from `x`.
    disjoint: BitMatrix,
    /// The nodes forced empty, as one bit row.
    empty: Vec<u64>,
}

/// The saturated set-algebra over a schema's populations.
pub struct SetAlgebra {
    index: HashMap<Node, usize>,
    lattice: Lattice,
}

impl SetAlgebra {
    /// Builds the base facts from a schema and saturates them.
    pub fn from_schema(schema: &Schema) -> Self {
        let base = Base::collect(schema);
        let lattice = base.saturate(None);
        SetAlgebra {
            index: base.index,
            lattice,
        }
    }

    /// Whether a node's population is forced empty.
    fn node_empty(&self, n: Node) -> bool {
        self.index
            .get(&n)
            .is_some_and(|&i| has(&self.lattice.empty, i))
    }

    /// Whether the schema forces an object type's population empty.
    pub fn object_type_forced_empty(&self, ot: ridl_brm::ObjectTypeId) -> bool {
        self.node_empty(Node::Ot(ot.raw()))
    }

    /// Whether the schema forces a role's population empty.
    pub fn role_forced_empty(&self, role: RoleRef) -> bool {
        self.node_empty(Node::role(&role))
    }
}

/// Detects declared set-algebraic constraints that are *implied* by the
/// rest of the schema — "superfluous definitions" in the paper's wording
/// (§4.1). A subset (or arity-1 equality half) is implied when the
/// saturation of the schema *without it* still derives the inclusion;
/// likewise for exclusions. Reported as Info: harmless, but the engineer
/// may want the canonicalisation pass to drop them.
///
/// This is a removal-based exact check — one saturation per candidate
/// constraint, over the base facts collected once with the candidate's own
/// left out — so it is **not** part of [`check`]; run it on demand (the
/// paper's RIDL-A also checks "on demand").
pub fn implied_constraints(schema: &Schema) -> Vec<Finding> {
    let base = Base::collect(schema);
    let mut out = Vec::new();
    for (cid, c) in schema.constraints() {
        let target: Option<(Node, Node, bool)> = match &c.kind {
            ConstraintKind::Subset { sub, sup } if sub.len() == 1 && sup.len() == 1 => {
                Some((Node::role(&sub[0]), Node::role(&sup[0]), false))
            }
            ConstraintKind::Exclusion { items } if items.len() == 2 => Some((
                Node::item(schema, &items[0]),
                Node::item(schema, &items[1]),
                true,
            )),
            _ => None,
        };
        let Some((a, b, disjoint)) = target else {
            continue;
        };
        let lattice = base.saturate(Some(cid));
        let (ia, ib) = (base.index[&a], base.index[&b]);
        let implied = if disjoint {
            lattice.disjoint.get(ia, ib)
        } else {
            lattice.subset.get(ia, ib)
        };
        if implied {
            out.push(Finding::info(
                "IMPLIED-CONSTRAINT",
                format!(
                    "{} {cid} is implied by the rest of the schema (superfluous definition)",
                    c.kind.keyword()
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
#[path = "setalg_oracle.rs"]
mod oracle;

/// Runs the consistency check over a schema; returns the findings.
pub fn check(schema: &Schema) -> Vec<Finding> {
    let sa = SetAlgebra::from_schema(schema);
    let mut out = Vec::new();
    for (oid, ot) in schema.object_types() {
        if sa.object_type_forced_empty(oid) {
            out.push(Finding::error(
                "FORCED-EMPTY-OT",
                format!(
                    "the set-algebraic constraints force the population of {} to be empty",
                    ot.name
                ),
            ));
        }
    }
    for (fid, ft) in schema.fact_types() {
        for side in Side::BOTH {
            let r = RoleRef::new(fid, side);
            // Only report the role when its player is not itself doomed
            // (avoid cascading noise).
            if sa.role_forced_empty(r) && !sa.object_type_forced_empty(schema.role_player(r)) {
                out.push(Finding::warning(
                    "FORCED-EMPTY-ROLE",
                    format!("role {} of fact {} can never be populated", side, ft.name),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ridl_brm::builder::SchemaBuilder;

    #[test]
    fn consistent_schema_clean() {
        let mut b = SchemaBuilder::new("ok");
        b.nolot("Person").unwrap();
        b.nolot("Paper").unwrap();
        b.fact("writes", ("author_of", "Person"), ("written_by", "Paper"))
            .unwrap();
        b.fact(
            "reviews",
            ("reviewer_of", "Person"),
            ("reviewed_by", "Paper"),
        )
        .unwrap();
        b.exclusion_roles(&[("writes", Side::Right), ("reviews", Side::Right)])
            .unwrap();
        let s = b.finish().unwrap();
        assert!(check(&s).is_empty(), "{:?}", check(&s));
    }

    #[test]
    fn equality_plus_exclusion_forces_empty() {
        let mut b = SchemaBuilder::new("bad");
        b.nolot("A").unwrap();
        b.nolot("B").unwrap();
        b.fact("f", ("x", "A"), ("y", "B")).unwrap();
        b.fact("g", ("x", "A"), ("y", "B")).unwrap();
        b.equality(&[("f", Side::Left)], &[("g", Side::Left)])
            .unwrap();
        b.exclusion_roles(&[("f", Side::Left), ("g", Side::Left)])
            .unwrap();
        let s = b.finish().unwrap();
        let f = check(&s);
        // Both roles equal and disjoint ⇒ both empty (warnings; A itself can
        // still be populated by instances playing nothing).
        assert!(
            f.iter().filter(|x| x.code == "FORCED-EMPTY-ROLE").count() >= 2,
            "{f:?}"
        );
    }

    #[test]
    fn total_role_in_contradiction_dooms_the_object_type() {
        let mut b = SchemaBuilder::new("bad");
        b.nolot("A").unwrap();
        b.nolot("B").unwrap();
        b.fact("f", ("x", "A"), ("y", "B")).unwrap();
        b.fact("g", ("x", "A"), ("y", "B")).unwrap();
        // Everyone in A plays f.x; f.x and g.x are equal yet exclusive.
        b.total_role("f", Side::Left).unwrap();
        b.equality(&[("f", Side::Left)], &[("g", Side::Left)])
            .unwrap();
        b.exclusion_roles(&[("f", Side::Left), ("g", Side::Left)])
            .unwrap();
        let s = b.finish().unwrap();
        let f = check(&s);
        assert!(
            f.iter()
                .any(|x| x.code == "FORCED-EMPTY-OT" && x.message.contains("A")),
            "{f:?}"
        );
    }

    #[test]
    fn exclusive_total_subtypes_cover_is_fine() {
        // Paper ⊇ {Invited, Program}, exclusive and total — satisfiable.
        let mut b = SchemaBuilder::new("ok");
        b.nolot("Paper").unwrap();
        b.nolot("Invited").unwrap();
        b.nolot("Program").unwrap();
        let s1 = b.sublink("Invited", "Paper").unwrap();
        let s2 = b.sublink("Program", "Paper").unwrap();
        b.total_subtypes("Paper", &[s1, s2]).unwrap();
        b.exclusion_subtypes(&[s1, s2]).unwrap();
        let s = b.finish().unwrap();
        assert!(check(&s).is_empty(), "{:?}", check(&s));
    }

    #[test]
    fn subtype_both_total_and_excluded_from_super_is_contradiction() {
        // Every Paper is an Invited (total over the sublink) but Invited is
        // disjoint from a role that is also total on Paper.
        let mut b = SchemaBuilder::new("bad");
        b.nolot("Paper").unwrap();
        b.nolot("Invited").unwrap();
        b.nolot("Person").unwrap();
        let sl = b.sublink("Invited", "Paper").unwrap();
        b.fact("submits", ("submitted_by", "Paper"), ("s", "Person"))
            .unwrap();
        b.total_subtypes("Paper", &[sl]).unwrap();
        b.total_role("submits", Side::Left).unwrap();
        // Invited papers never play submits.left — but every paper is
        // invited and every paper plays submits.left.
        b.raw_constraint(ridl_brm::Constraint::new(
            ridl_brm::ConstraintKind::Exclusion {
                items: vec![
                    ridl_brm::RoleOrSublink::Sublink(sl),
                    ridl_brm::RoleOrSublink::Role(RoleRef::new(s_fact(&b), Side::Left)),
                ],
            },
        ));
        let s = b.finish_unchecked();
        let f = check(&s);
        assert!(
            f.iter()
                .any(|x| x.code == "FORCED-EMPTY-OT" && x.message.contains("Paper")),
            "{f:?}"
        );
    }

    fn s_fact(b: &SchemaBuilder) -> ridl_brm::FactTypeId {
        b.schema().fact_type_by_name("submits").unwrap()
    }

    #[test]
    fn empty_propagates_to_subtypes() {
        let mut b = SchemaBuilder::new("bad");
        b.nolot("A").unwrap();
        b.nolot("Sub").unwrap();
        b.nolot("B").unwrap();
        b.sublink("Sub", "A").unwrap();
        b.fact("f", ("x", "A"), ("y", "B")).unwrap();
        b.fact("g", ("x", "A"), ("y", "B")).unwrap();
        b.total_role("f", Side::Left).unwrap();
        b.equality(&[("f", Side::Left)], &[("g", Side::Left)])
            .unwrap();
        b.exclusion_roles(&[("f", Side::Left), ("g", Side::Left)])
            .unwrap();
        let s = b.finish().unwrap();
        let f = check(&s);
        // A empty ⇒ Sub empty too.
        assert!(f
            .iter()
            .any(|x| x.code == "FORCED-EMPTY-OT" && x.message.contains("Sub")));
    }
}

#[cfg(test)]
mod implied_tests {
    use super::*;
    use ridl_brm::builder::SchemaBuilder;

    #[test]
    fn subset_implied_by_totality_is_flagged() {
        // r_opt ⊆ r_id is implied when r_id is total on the shared player.
        let mut b = SchemaBuilder::new("s");
        b.nolot("A").unwrap();
        b.nolot("B").unwrap();
        b.fact("id", ("x", "A"), ("y", "B")).unwrap();
        b.fact("opt", ("x", "A"), ("y", "B")).unwrap();
        b.total_role("id", Side::Left).unwrap();
        b.subset(&[("opt", Side::Left)], &[("id", Side::Left)])
            .unwrap();
        let s = b.finish().unwrap();
        let f = implied_constraints(&s);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "IMPLIED-CONSTRAINT");
    }

    #[test]
    fn genuine_subset_is_not_flagged() {
        let mut b = SchemaBuilder::new("s");
        b.nolot("A").unwrap();
        b.nolot("B").unwrap();
        b.fact("f", ("x", "A"), ("y", "B")).unwrap();
        b.fact("g", ("x", "A"), ("y", "B")).unwrap();
        b.subset(&[("f", Side::Left)], &[("g", Side::Left)])
            .unwrap();
        let s = b.finish().unwrap();
        assert!(implied_constraints(&s).is_empty());
    }

    #[test]
    fn exclusion_implied_by_wider_exclusion() {
        // Exclusion between two subtypes is implied when their supertypes
        // are already exclusive.
        let mut b = SchemaBuilder::new("s");
        b.nolot("P").unwrap();
        b.nolot("A").unwrap();
        b.nolot("B").unwrap();
        b.nolot("A1").unwrap();
        b.nolot("B1").unwrap();
        let sa = b.sublink("A", "P").unwrap();
        let sb = b.sublink("B", "P").unwrap();
        let sa1 = b.sublink("A1", "A").unwrap();
        let sb1 = b.sublink("B1", "B").unwrap();
        b.exclusion_subtypes(&[sa, sb]).unwrap();
        b.exclusion_subtypes(&[sa1, sb1]).unwrap();
        let s = b.finish().unwrap();
        let f = implied_constraints(&s);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("EXCLUSION"));
    }
}
